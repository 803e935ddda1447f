//! Explore the offline modeling pipeline: profile a co-location pair,
//! train all five model families (DT / KNN / SV / MLP / LR), score them on
//! held-out data (the Figs. 6/7 methodology), run the §V-A Lasso feature
//! selection, and poke the deployed predictor with ad-hoc what-if queries.
//!
//! ```sh
//! cargo run --release --example model_explorer
//! ```

use sturgeon::predictor::evaluation::{lasso_select_features, score_families};
use sturgeon::prelude::*;
use sturgeon::profiler::ProfilerConfig;

fn main() {
    let pair = ColocationPair::new(LsServiceId::Xapian, BeAppId::Facesim);
    let setup = ExperimentSetup::new(pair, 42);
    println!("modeling pipeline for {}\n", pair.label());

    // Offline profiling sweep (interference-free, §V-A).
    let datasets = setup
        .profile(ProfilerConfig::default())
        .expect("profiling succeeds");
    println!(
        "profiled {} LS samples and {} BE samples over the full load/config space",
        datasets.ls_qos.len(),
        datasets.be_throughput.len()
    );

    // Model-family bake-off (Figs. 6/7).
    let scores = score_families(&datasets, 42).expect("scoring succeeds");
    println!(
        "\n{:<6} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "model", "QoS acc", "QoS R²", "BE perf", "LS power", "BE power"
    );
    for s in &scores {
        println!(
            "{:<6} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
            s.kind.name(),
            s.ls_qos_accuracy,
            s.ls_qos_r2,
            s.be_perf_r2,
            s.ls_power_r2,
            s.be_power_r2
        );
    }

    // Lasso feature selection over an augmented candidate set.
    let names = ["input/QPS", "cores", "frequency", "LLC ways"];
    let kept = lasso_select_features(&datasets.ls_power, 0.01).expect("lasso fits");
    println!(
        "\nLasso kept these base features for the LS power model: {:?}",
        kept.iter().map(|&i| names[i]).collect::<Vec<_>>()
    );

    // Deploy the paper's picks and ask what-if questions.
    let predictor = setup.train_default_predictor();
    println!("\nwhat-if queries against the deployed predictor:");
    let qps = 0.4 * setup.peak_qps();
    for (cores, level, ways) in [(4u32, 9usize, 8u32), (6, 5, 8), (8, 2, 10), (2, 9, 4)] {
        let f = setup.spec().freq_ghz(level);
        let feasible = predictor.ls_feasible(cores, f, ways, qps);
        let power = predictor.ls_power_w(cores, f, ways, qps);
        println!(
            "  xapian on {cores} cores @ {f:.2} GHz with {ways} ways at {qps:.0} QPS: \
             QoS {} | partition power ≈ {power:.1} W",
            if feasible { "OK " } else { "VIOLATED" }
        );
    }
    for (cores, level, ways) in [(16u32, 9usize, 12u32), (12, 4, 12), (8, 9, 4)] {
        let f = setup.spec().freq_ghz(level);
        println!(
            "  facesim on {cores} cores @ {f:.2} GHz with {ways} ways: \
             throughput ≈ {:.2}× solo | power ≈ {:.1} W",
            predictor.be_throughput(cores, f, ways),
            predictor.be_power_w(cores, f, ways)
        );
    }
    let search = ConfigSearch::new(
        &predictor,
        setup.spec().clone(),
        setup.budget_w(),
        SearchParams::default(),
    );
    println!(
        "\nthe §V-B search at {qps:.0} QPS made {} model calls; each costs microseconds (§VII-E).",
        search.best_config(qps).stats.model_calls
    );
}
