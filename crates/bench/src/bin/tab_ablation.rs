//! Quality-level ablations of Sturgeon's design choices (DESIGN.md):
//!
//! 1. **Conservative power margin** — peak-power-style training margin vs
//!    no margin: overload rate and throughput cost.
//! 2. **Slack band (α, β)** — tighter/looser bands vs the paper's 10/20%.
//! 3. **Preference-aware harvest** vs cores-only harvest: the balancer's
//!    target selection matters for throughput retention.
//! 4. **Model family swap** — DT-everything vs the paper's §V-C picks.

use rayon::prelude::*;
use sturgeon::balancer::BalancerParams;
use sturgeon::prelude::*;

const PAIR_SET: [(LsServiceId, BeAppId); 4] = [
    (LsServiceId::Memcached, BeAppId::Raytrace),
    (LsServiceId::Memcached, BeAppId::Ferret),
    (LsServiceId::Xapian, BeAppId::Fluidanimate),
    (LsServiceId::ImgDnn, BeAppId::Blackscholes),
];

fn run_variant(
    label: &str,
    predictor_cfg: PredictorConfig,
    controller_cfg: ControllerParams,
    duration: u32,
) {
    // The four pairs are independent end-to-end experiments (own env,
    // profiling, training, run): fan them out across the rayon pool.
    let rows: Vec<(f64, f64, f64)> = PAIR_SET
        .to_vec()
        .into_par_iter()
        .map(|(ls, be)| {
            let setup = ExperimentSetup::new(ColocationPair::new(ls, be), 42);
            let predictor = setup
                .train_predictor(Default::default(), predictor_cfg)
                .expect("training succeeds");
            let controller = SturgeonController::new(
                predictor,
                setup.spec().clone(),
                setup.budget_w(),
                setup.qos_target_ms(),
                controller_cfg,
            );
            let r = setup
                .runner()
                .controller(controller)
                .load(LoadProfile::paper_fluctuating(duration as f64))
                .intervals(duration)
                .go()
                .expect("ablation run");
            (r.qos_rate, r.mean_be_throughput, r.overload_fraction)
        })
        .collect();
    let qos: Vec<f64> = rows.iter().map(|r| r.0).collect();
    let tput: Vec<f64> = rows.iter().map(|r| r.1).collect();
    let over: Vec<f64> = rows.iter().map(|r| r.2).collect();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    println!(
        "{:<34} qos {:>6.3}  tput {:>6.3}  overload {:>6.4}",
        label,
        mean(&qos),
        mean(&tput),
        mean(&over)
    );
}

fn main() {
    let duration = sturgeon_bench::duration_from_args().min(400);
    println!("Design-choice ablations over 4 representative pairs ({duration}s runs, seed 42)\n");

    println!("-- power-margin ablation (paper: conservative peak-power training) --");
    for margin in [0.0, 0.04, 0.10] {
        run_variant(
            &format!("power_margin = {margin:.2}"),
            PredictorConfig {
                power_margin: margin,
                ..PredictorConfig::default()
            },
            ControllerParams::default(),
            duration,
        );
    }

    println!("\n-- slack-band ablation (paper default α=10%, β=20%) --");
    for (alpha, beta) in [(0.05, 0.10), (0.10, 0.20), (0.20, 0.40)] {
        run_variant(
            &format!("alpha={alpha:.2}, beta={beta:.2}"),
            PredictorConfig::default(),
            ControllerParams {
                balancer: BalancerParams { alpha, beta },
                ..ControllerParams::default()
            },
            duration,
        );
    }

    println!("\n-- balancer ablation (paper §VII-C) --");
    run_variant(
        "balancer enabled (Sturgeon)",
        PredictorConfig::default(),
        ControllerParams::default(),
        duration,
    );
    run_variant(
        "balancer disabled (Sturgeon-NoB)",
        PredictorConfig::default(),
        ControllerParams {
            balancer_enabled: false,
            ..ControllerParams::default()
        },
        duration,
    );

    println!("\n-- model-family ablation (paper §V-C picks vs DT-everything vs LR-everything) --");
    run_variant(
        "paper picks (DT cls + KNN reg)",
        PredictorConfig::default(),
        ControllerParams::default(),
        duration,
    );
    run_variant(
        "DT everywhere",
        PredictorConfig {
            ls_qos: ModelKind::DecisionTree,
            ls_latency: ModelKind::DecisionTree,
            ls_power: ModelKind::DecisionTree,
            be_perf: ModelKind::DecisionTree,
            be_power: ModelKind::DecisionTree,
            ..PredictorConfig::default()
        },
        ControllerParams::default(),
        duration,
    );
    run_variant(
        "LR everywhere",
        PredictorConfig {
            ls_qos: ModelKind::Lr,
            ls_latency: ModelKind::Lr,
            ls_power: ModelKind::Lr,
            be_perf: ModelKind::Lr,
            be_power: ModelKind::Lr,
            ..PredictorConfig::default()
        },
        ControllerParams::default(),
        duration,
    );
}
