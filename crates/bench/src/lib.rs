//! # sturgeon-bench
//!
//! The benchmark/report harness that regenerates every table and figure of
//! the Sturgeon paper's evaluation. Each `src/bin/figN_*.rs` binary prints
//! the rows/series of one paper artifact; the Criterion benches under
//! `benches/` cover the §VII-E overhead numbers and design-choice
//! ablations.
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `fig2_power_overload`  | Fig. 2 — power at co-location vs budget |
//! | `fig3_feasible_configs`| Fig. 3 — BE throughput under feasible configs |
//! | `fig6_perf_model_accuracy` | Fig. 6 — R² of performance models |
//! | `fig7_power_model_accuracy`| Fig. 7 — R² of power models |
//! | `fig9_qos_guarantee`   | Fig. 9 — QoS guarantee rate, 18 pairs |
//! | `fig10_be_throughput`  | Fig. 10 — normalized BE throughput, 18 pairs |
//! | `fig11_trace`          | Fig. 11 — memcached+raytrace time series |
//! | `tab_overhead`         | §VII-E — search/balancer overhead accounting |
//! | `tab_ablation`         | DESIGN.md ablations (quality-level) |
//! | `tab_robustness`       | DESIGN.md fault model — QoS/overload per fault class |
//!
//! Every binary accepts an optional first argument overriding the run
//! duration in seconds (default 600) and prints the seed it used, so all
//! numbers are bit-for-bit reproducible.

use std::sync::Arc;
use sturgeon::baselines::{PartiesController, PartiesParams};
use sturgeon::prelude::*;

/// Default experiment duration (matches the probe runs in EXPERIMENTS.md).
pub const DEFAULT_DURATION_S: u32 = 600;
/// Default RNG seed used by every report binary.
pub const DEFAULT_SEED: u64 = 42;

/// Reads the run duration from the first CLI argument (seconds).
pub fn duration_from_args() -> u32 {
    std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(DEFAULT_DURATION_S)
}

/// Reads the RNG seed from the second CLI argument.
pub fn seed_from_args() -> u64 {
    std::env::args()
        .nth(2)
        .and_then(|a| a.parse().ok())
        .unwrap_or(DEFAULT_SEED)
}

/// Results of one pair under the three evaluated systems.
pub struct PairEval {
    /// The co-location pair.
    pub pair: ColocationPair,
    /// Sturgeon (full system).
    pub sturgeon: RunResult,
    /// Enhanced PARTIES baseline.
    pub parties: RunResult,
    /// Sturgeon with the balancer disabled (§VII-C ablation).
    pub nob: RunResult,
}

/// Builds a Sturgeon controller for a setup (offline profiling + training
/// included).
pub fn sturgeon_controller(setup: &ExperimentSetup, balancer: bool) -> SturgeonController {
    sturgeon_controller_with(setup, Arc::new(setup.train_default_predictor()), balancer)
}

/// Builds a Sturgeon controller around an already-trained predictor, so
/// several arms of one pair can share a single training.
fn sturgeon_controller_with(
    setup: &ExperimentSetup,
    predictor: Arc<PerfPowerPredictor>,
    balancer: bool,
) -> SturgeonController {
    SturgeonController::with_shared_predictor(
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

/// Builds a Sturgeon controller with the robustness layer (stale-telemetry
/// detection + safe-mode fallback) enabled or disabled — the two arms of
/// the `tab_robustness` comparison.
pub fn robust_sturgeon_controller(setup: &ExperimentSetup, hardened: bool) -> SturgeonController {
    let predictor = setup.train_default_predictor();
    SturgeonController::new(
        predictor,
        setup.spec().clone(),
        setup.budget_w(),
        setup.qos_target_ms(),
        if hardened {
            ControllerParams::hardened()
        } else {
            ControllerParams::default()
        },
    )
}

/// Builds the enhanced-PARTIES controller for a setup.
pub fn parties_controller(setup: &ExperimentSetup) -> PartiesController {
    PartiesController::new(
        setup.spec().clone(),
        setup.budget_w(),
        setup.qos_target_ms(),
        PartiesParams::default(),
    )
}

/// Runs one pair under Sturgeon, PARTIES and Sturgeon-NoB with the paper's
/// fluctuating load (20% → 80% → 20% of peak). Training is deterministic,
/// so the two Sturgeon arms share one trained predictor.
pub fn evaluate_pair(pair: ColocationPair, seed: u64, duration_s: u32) -> PairEval {
    let setup = ExperimentSetup::new(pair, seed);
    let load = LoadProfile::paper_fluctuating(duration_s as f64);
    let predictor = Arc::new(setup.train_default_predictor());
    let sturgeon = setup
        .runner()
        .controller(sturgeon_controller_with(
            &setup,
            Arc::clone(&predictor),
            true,
        ))
        .load(load.clone())
        .intervals(duration_s)
        .go()
        .expect("sturgeon run");
    let nob = setup
        .runner()
        .controller(sturgeon_controller_with(&setup, predictor, false))
        .load(load.clone())
        .intervals(duration_s)
        .go()
        .expect("sturgeon-nob run");
    let parties = setup
        .runner()
        .controller(parties_controller(&setup))
        .load(load)
        .intervals(duration_s)
        .go()
        .expect("parties run");
    PairEval {
        pair,
        sturgeon,
        parties,
        nob,
    }
}

/// Runs the full 18-pair evaluation (the Figs. 9/10 sweep).
pub fn evaluate_all(seed: u64, duration_s: u32) -> Vec<PairEval> {
    ColocationPair::all()
        .map(|pair| evaluate_pair(pair, seed, duration_s))
        .collect()
}

/// Mean of a slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Short `ls+be` label using the paper's abbreviations (e.g. `mc+bs`).
pub fn short_label(pair: &ColocationPair) -> String {
    let ls = match pair.ls {
        LsServiceId::Memcached => "memcached",
        LsServiceId::Xapian => "xapian",
        LsServiceId::ImgDnn => "img-dnn",
    };
    format!("{}+{}", ls, pair.be.abbrev())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluate_pair_produces_all_three_systems() {
        let pair = ColocationPair::new(LsServiceId::Memcached, BeAppId::Swaptions);
        let eval = evaluate_pair(pair, 1, 60);
        assert_eq!(eval.sturgeon.controller, "Sturgeon");
        assert_eq!(eval.parties.controller, "PARTIES");
        assert_eq!(eval.nob.controller, "Sturgeon-NoB");
        assert_eq!(eval.sturgeon.log.len(), 60);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn short_labels_use_abbreviations() {
        let pair = ColocationPair::new(LsServiceId::Xapian, BeAppId::Fluidanimate);
        assert_eq!(short_label(&pair), "xapian+fd");
    }
}
