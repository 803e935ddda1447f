//! Golden-trace regression test: a fig11-style Sturgeon run on the
//! flagship pair with a fixed seed, pinned against checked-in golden
//! metrics. Every layer of the stack — profiler, predictor, search,
//! balancer, simulated node — feeds these numbers, so any unintended
//! behaviour change anywhere shows up as a golden mismatch. If a change
//! is *intended*, re-run with `--nocapture`, copy the printed values and
//! update the goldens in the same commit.

use sturgeon::prelude::*;
use sturgeon::profiler::ProfilerConfig;

/// Pinned metrics of the golden run (seed 42, fast profiler seed 77,
/// memcached+raytrace, 160 s fluctuating load).
const GOLDEN_QOS_RATE: f64 = 0.993512158899;
const GOLDEN_MEAN_POWER_W: f64 = 73.298377566216;
const GOLDEN_MEAN_BE_TPUT: f64 = 0.641476897950;
const GOLDEN_PEAK_POWER_W: f64 = 76.771413013333;

fn golden_run() -> RunResult {
    let setup = ExperimentSetup::new(
        ColocationPair::new(LsServiceId::Memcached, BeAppId::Raytrace),
        42,
    );
    let profiler = ProfilerConfig {
        ls_samples_per_load: 160,
        ls_load_fractions: (1..=16).map(|i| i as f64 / 20.0).collect(),
        be_samples: 1000,
        seed: 77,
    };
    let predictor = setup
        .train_predictor(profiler, PredictorConfig::default())
        .expect("training succeeds");
    let controller = SturgeonController::new(
        predictor,
        setup.spec().clone(),
        setup.budget_w(),
        setup.qos_target_ms(),
        ControllerParams::default(),
    );
    setup
        .runner()
        .controller(controller)
        .load(LoadProfile::paper_fluctuating(160.0))
        .intervals(160)
        .go()
        .unwrap()
}

#[test]
fn golden_trace_matches_pinned_metrics() {
    let r = golden_run();
    let mean_power = r.log.mean_power_w();
    println!(
        "golden candidates: qos_rate={:.12} mean_power_w={:.12} mean_be_tput={:.12} peak_power_w={:.12}",
        r.qos_rate, mean_power, r.mean_be_throughput, r.peak_power_w
    );
    assert!(
        (r.qos_rate - GOLDEN_QOS_RATE).abs() <= 1e-6,
        "qos_rate drifted: {:.12} vs golden {:.12}",
        r.qos_rate,
        GOLDEN_QOS_RATE
    );
    assert!(
        (mean_power - GOLDEN_MEAN_POWER_W).abs() <= 0.05,
        "mean power drifted: {:.6} W vs golden {:.6} W",
        mean_power,
        GOLDEN_MEAN_POWER_W
    );
    assert!(
        (r.mean_be_throughput - GOLDEN_MEAN_BE_TPUT).abs() <= 1e-3,
        "BE throughput drifted: {:.6} vs golden {:.6}",
        r.mean_be_throughput,
        GOLDEN_MEAN_BE_TPUT
    );
    assert!(
        (r.peak_power_w - GOLDEN_PEAK_POWER_W).abs() <= 0.05,
        "peak power drifted: {:.6} W vs golden {:.6} W",
        r.peak_power_w,
        GOLDEN_PEAK_POWER_W
    );
}

#[test]
fn golden_run_is_reproducible() {
    // The premise of pinning goldens at all: two identical runs agree
    // bit-for-bit.
    let a = golden_run();
    let b = golden_run();
    assert_eq!(a.qos_rate, b.qos_rate);
    assert_eq!(a.log.mean_power_w(), b.log.mean_power_w());
    assert_eq!(a.mean_be_throughput, b.mean_be_throughput);
    assert_eq!(a.peak_power_w, b.peak_power_w);
}
